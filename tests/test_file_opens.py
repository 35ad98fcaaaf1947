"""Where the package opens files.

Every input file is read through inputs.read_lines, which decodes each line on
its own, so that a fault is named at its line, in file order. A strict read
decodes whole chunks ahead of the line being parsed, and would name a byte
that is not UTF-8 ahead of an earlier fault.
"""

from __future__ import annotations

import ast
from pathlib import Path

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


def _mode(call: ast.Call) -> str:
    """The mode of a call of the builtin open: its literal value, else its source text."""
    given = [kw.value for kw in call.keywords if kw.arg == "mode"] or call.args[1:2]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else ast.unparse(given[0])


def _opens(path: Path) -> list[tuple[str, str, str]]:
    """(module, innermost enclosing function, mode) of each call in the file that opens a file."""
    calls = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == "open":
                    calls.append((path.stem, function, _mode(child)))
                elif isinstance(func, ast.Attribute) and func.attr in OTHER_OPENS:
                    calls.append((path.stem, function, func.attr))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return calls


def test_files_are_read_only_at_allowed_sites():
    """A new reader that opens its file itself fails here; it should take its lines from read_lines."""
    got = sorted(call for path in SRC.glob("*.py") for call in _opens(path))
    assert got == ALLOWED_OPENS
