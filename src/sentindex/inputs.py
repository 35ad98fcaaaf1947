"""Reading input files: JSON objects that configure a stage, headed CSV tables."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TextIO


def load_json_object(path: str | Path) -> dict:
    """Read a JSON file whose top level must be an object, naming the file if not."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be a JSON object, got {type(obj).__name__}")
    return obj


def csv_columns(fh: TextIO, names: tuple[str, ...], what: str) -> list[int]:
    """Read the header line of fh and return the index of each named column."""
    index = {name: i for i, name in enumerate(fh.readline().strip().split(","))}
    for name in names:
        if name not in index:
            raise ValueError(f"{what} CSV lacks a {name!r} column")
    return [index[name] for name in names]
