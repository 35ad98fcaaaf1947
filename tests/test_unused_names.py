"""Which names of the package nothing in the package uses.

A module-level function or class that no module of src/ references, and a name
that a module imports from another and never uses, are there only for a caller
outside the package, or are dead. Each is listed below with its caller, so a
helper left behind when its last caller in src/ goes fails here, and removing
the outside caller shows what may be deleted with it.

A reference is any use of the name, bare or as an attribute, in any module of
src/; an import alone is not one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sentindex"

# module-level functions and classes that no module of src/ references: (module, name, caller)
UNREFERENCED = sorted([
    ("aggregation", "effective_trading_date", "perfbench/inproc.py; the README library section; tests"),
    ("sentiment", "load_scored", "perfbench/inproc.py; tests"),
    ("sentiment", "score_articles", "perfbench/inproc.py; the README library example; tests"),
    ("sentiment", "write_scored", "perfbench/inproc.py; tests"),
])

# names that a module of src/ imports from another and never uses: (module, name, caller)
UNUSED_IMPORTS = sorted([
    ("aggregation", "load_daily_sentiment_csv", "perfbench/inproc.py"),
    ("backtest", "load_prices", "perfbench/inproc.py"),
])


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _used(tree: ast.Module) -> set[str]:
    """Every name the module uses, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_unreferenced_function_or_class_is_listed():
    modules = _modules()
    used = set().union(*map(_used, modules.values()))
    got = sorted((module, node.name) for module, tree in modules.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and node.name not in used)
    assert got == [(module, name) for module, name, _ in UNREFERENCED]


def test_every_unused_import_within_the_package_is_listed():
    got = []
    for module, tree in _modules().items():
        used = _used(tree)
        got += [(module, alias.asname or alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level  # relative: from within the package
                for alias in node.names if (alias.asname or alias.name) not in used]
    assert sorted(got) == [(module, name) for module, name, _ in UNUSED_IMPORTS]
