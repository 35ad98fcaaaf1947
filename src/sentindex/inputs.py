"""Reading input files: JSON objects that configure a stage, JSON lines, headed CSV tables."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from operator import itemgetter
from pathlib import Path
from typing import Callable

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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from None
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


def not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    """The error for a file that is not UTF-8, naming the first line that fails to decode.

    The file is read again as bytes, so that the reason is the line's own
    decode error and not one at an offset into the chunk being decoded.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return ValueError(f"{path}: line {lineno}: {line_exc}")
    return ValueError(f"{path}: {exc}")  # the file changed since it failed to decode


def config_value(obj: dict, key: str, kind: type, where: str | Path):
    """obj[key] checked against kind.

    float takes a finite JSON number (no boolean) and returns a float, int a
    JSON integer, str a string, list a list of strings (returned as a tuple)
    and dict an object. Anything else raises ValueError naming where the
    object came from and the key.
    """
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


def config_from_dict(cls: type, obj: dict, where: str | Path, **nested: Callable):
    """The config dataclass cls built from a JSON object; absent fields keep their defaults.

    Each value must have the kind of its field's default (see config_value),
    where a tuple default takes a list of strings. A field named in nested
    takes a JSON object, which nested[name](object, where) turns into the
    field's value. A key that is no field of cls, or a value of another kind,
    raises ValueError naming where and the key.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    for key in obj:
        if key not in defaults:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in nested:
            values[key] = nested[key](config_value(obj, key, dict, where), f"{where}: {key!r}")
        else:
            kind = list if type(defaults[key]) is tuple else type(defaults[key])
            values[key] = config_value(obj, key, kind, where)
    return cls(**values)


def read_csv(path: str | Path, names: tuple[str, ...], what: str,
             row: Callable[[tuple[str, ...]], None]) -> None:
    """Call row once per non-blank data line of a headed CSV file, in file order.

    row gets the fields of the named columns, in the order of names (at least
    two), as a tuple of strings. A header that lacks one of names raises
    ValueError naming the file. A line with fewer fields than the header
    names, a line that is not UTF-8, or a ValueError that row raises is
    re-raised as ValueError naming the file and the line.
    """
    lineno = 1
    try:
        with open(path, encoding="utf-8") as fh:
            index = {name: i for i, name in enumerate(fh.readline().strip().split(","))}
            for name in names:
                if name not in index:
                    raise ValueError(f"{path}: {what} CSV lacks a {name!r} column")
            take = itemgetter(*map(index.__getitem__, names))
            # a file iterator yields no empty string, so isspace() finds the blank lines
            for lineno, line in enumerate(fh, start=2):
                if not line.isspace():
                    row(take(line.rstrip("\n").split(",")))
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    except (ValueError, IndexError) as exc:
        if lineno == 1:  # the header, whose error names the file already
            raise
        reason = "too few fields" if isinstance(exc, IndexError) else str(exc)
        raise ValueError(f"{path}: line {lineno}: {reason}") from None
