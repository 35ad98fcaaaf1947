"""Reading input files: JSON objects that configure a stage, JSON lines, headed CSV tables."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import TextIO

_raw_decode = json.JSONDecoder().raw_decode

_KINDS = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    list: "a list of strings",
    dict: "a JSON object",
}


def load_json_object(path: str | Path) -> dict:
    """Read a JSON file whose top level must be an object, naming the file if not."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = parse_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be a JSON object, got {type(obj).__name__}")
    return obj


def parse_json(text: str):
    """json.loads(text), quicker when the document starts at the first character.

    A document nested too deeply for the parser raises JSONDecodeError
    instead of RecursionError.
    """
    try:
        try:
            obj, end = _raw_decode(text)
            if not text[end:].strip(" \t\n\r"):
                return obj
        except json.JSONDecodeError:
            pass
        return json.loads(text)  # leading whitespace, a byte-order mark, extra data or an error
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def config_value(obj: dict, key: str, kind: type, default, where: str | Path):
    """obj[key] checked against kind, or default when the key is absent.

    float takes a finite JSON number (no boolean) and returns a float, int a
    JSON integer, str a string, list a list of strings (returned as a tuple)
    and dict an object. Anything else raises ValueError naming where the
    object came from and the key.
    """
    if key not in obj:
        return default
    value = obj[key]
    if kind is float:
        if type(value) is float and math.isfinite(value):
            return value
        if type(value) is int and abs(value) <= sys.float_info.max:
            return float(value)
    elif kind is list:
        if type(value) is list and all(type(item) is str for item in value):
            return tuple(value)
    elif type(value) is kind:
        return value
    got = type(value).__name__ if isinstance(value, (str, list, dict)) else repr(value)
    raise ValueError(f"{where}: {key!r} must be {_KINDS[kind]}, got {got}")


def reject_unknown_keys(obj: dict, config_class: type, where: str | Path) -> None:
    """Raise ValueError naming where and the first key of obj that is no field of config_class."""
    known = {f.name for f in fields(config_class)}
    for key in obj:
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r}")


def csv_columns(fh: TextIO, names: tuple[str, ...], what: str) -> list[int]:
    """Read the header line of fh and return the index of each named column."""
    index = {name: i for i, name in enumerate(fh.readline().strip().split(","))}
    for name in names:
        if name not in index:
            raise ValueError(f"{fh.name}: {what} CSV lacks a {name!r} column")
    return [index[name] for name in names]


def line_error(path: str | Path, lineno: int, exc: ValueError | IndexError) -> ValueError:
    """What went wrong reading line lineno of a CSV file, naming the file and the line.

    An IndexError is a row with fewer fields than the header names.
    """
    reason = "too few fields" if isinstance(exc, IndexError) else str(exc)
    return ValueError(f"{path}: line {lineno}: {reason}")
